"""Each correctness check rejects a planted wrong output."""

import copy

import pytest

import checks


def _report(valid=True, outcomes=("VERIFIED",), hits=None):
    subgoals = []
    for index, outcome in enumerate(outcomes):
        subgoals.append({
            "description": f"subgoal {index}", "valid": outcome ==
            "VERIFIED", "outcome": outcome, "seconds": 0.5,
            "budget": {"steps": 40, "seconds": 0.5, "tripped": None},
            "stats": {"minimizations": 3, "projections": 1},
            "cache": (None if hits is None
                      else {"fingerprint": f"f{index}", "hit": hits}),
            "counterexample": None})
    return {"program": "p", "valid": valid, "error": None,
            "outcome": "VERIFIED" if valid else "FAILED",
            "seconds": 0.5, "cache_hits": 0, "formula_size": 7,
            "subgoals": subgoals}


def test_verdict_check_accepts_the_known_answer():
    assert checks.verdict_problems(_report(), True) == []


def test_verdict_check_rejects_a_flipped_verdict():
    flipped = _report(valid=False, outcomes=("FAILED",))
    assert checks.verdict_problems(flipped, True)
    assert checks.verdict_problems(_report(), False)


def test_verdict_check_rejects_a_degraded_outcome():
    assert checks.verdict_problems(_report(outcomes=("TIMEOUT",)), True)


def test_counterexample_check_rejects_the_wrong_length():
    failing = _report(valid=False, outcomes=("FAILED",))
    failing["counterexample_length"] = 4
    assert checks.verdict_problems(failing, False, 4) == []
    failing["counterexample_length"] = 5
    assert checks.verdict_problems(failing, False, 4)


def test_warm_check_accepts_a_replay_of_the_cold_report():
    cold = _report(hits=False)
    warm = copy.deepcopy(cold)
    warm["seconds"] = 0.001
    warm["cache_hits"] = 1
    for subgoal in warm["subgoals"]:
        subgoal.update(seconds=0.001, cache={"hit": True},
                       budget={"steps": 0})
    assert checks.warm_problems(warm, cold) == []


def test_warm_check_rejects_a_report_that_differs():
    cold = _report(hits=False)
    warm = copy.deepcopy(cold)
    for subgoal in warm["subgoals"]:
        subgoal["cache"] = {"hit": True}
    warm["formula_size"] = 8
    assert checks.warm_problems(warm, cold)
    warm = copy.deepcopy(cold)
    warm["subgoals"][0]["cache"] = {"hit": True}
    warm["subgoals"][0]["stats"]["minimizations"] = 2
    assert checks.warm_problems(warm, cold)


def test_warm_check_rejects_a_cache_miss():
    cold = _report(hits=False)
    assert "cache missed" in checks.warm_problems(
        copy.deepcopy(cold), cold)[0]


def test_call_count_and_daemon_stats_checks():
    reported = {"minimizations": 3, "projections": 1}
    assert checks.call_count_problems(dict(reported), reported) == []
    assert checks.call_count_problems(
        {"minimizations": 2, "projections": 1}, reported)
    stats = {"cache": {"hits": 10, "misses": 4}}
    assert checks.daemon_stats_problems(stats, 10, 4) == []
    assert checks.daemon_stats_problems(stats, 9, 4)
    assert checks.daemon_stats_problems(stats, 10, 5)


@pytest.fixture(scope="module")
def swap():
    from repro.pascal import check_program, parse_program
    from repro.programs import ALL_PROGRAMS
    from repro.verify import verify_source

    source = ALL_PROGRAMS["swap"]
    failed = [subgoal for subgoal in verify_source(source).results
              if not subgoal.valid]
    return check_program(parse_program(source)), failed[0]


def test_replay_accepts_swaps_counterexample(swap):
    program, failed = swap
    assert len(failed.counterexample.symbols) == 3
    assert checks.replay_problems(program, failed) == []


def test_replay_rejects_a_store_on_which_nothing_fails(swap):
    from repro.stores.model import Store

    program, failed = swap
    planted = copy.copy(failed)
    planted.counterexample = copy.copy(failed.counterexample)
    planted.counterexample.store = Store(program.schema)
    assert checks.replay_problems(program, planted) == [
        "counterexample replays without a failure"]

"""The layer wrappers: self-time arithmetic, the task hooks, and a
full install/uninstall round that must leave repro as it was."""

import json
import types

import pytest

import tracing


def test_self_time_subtracts_wrapped_children():
    # a [0, 10) holds b [1, 4) and b [5, 6); the first b holds c [2, 3).
    batch = [["c", 2.0, 3.0, 1, None], ["b", 1.0, 4.0, 3, None],
             ["b", 5.0, 6.0, 3, True], ["a", 0.0, 10.0, None, None]]
    totals = tracing.layer_totals([batch])
    assert totals["self_s"] == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert totals["calls"] == {"a": 1, "b": 2, "c": 1}
    assert totals["flags"] == {"b": 1}
    window = tracing.layer_totals([batch], since=4.5, until=9.0)
    assert window["self_s"] == {"b": 1.0}


def test_encode_turns_parents_into_indices():
    parent = ["a", 0.0, 2.0, None, None]
    child = ["b", 0.5, 1.0, parent, None]
    assert tracing.encode([child, parent]) == [
        ["b", 0.5, 1.0, 1, None], ["a", 0.0, 2.0, None, None]]


def test_task_hooks_time_the_dispatch_wait(tmp_path):
    recorder = tracing.Recorder(str(tmp_path))
    submit = tracing._make_wrapper(recorder, "submit",
                                   lambda pool, payload: None)
    task = tracing._make_wrapper(recorder, "task", lambda payload: 7)
    payload = types.SimpleNamespace()
    submit(object(), payload)
    assert task(payload) == 7
    assert recorder.spans == []
    (batch,) = tracing.read_batches(str(tmp_path))
    (name, start, end, parent, _), = batch
    assert name == "parallel.dispatch_wait" and parent is None
    assert 0.0 <= end - start < 5.0


def _attributes():
    found = {}
    for module in tracing._repro_modules():
        for key, value in vars(module).items():
            found[(module.__name__, key)] = value
            if isinstance(value, type) and \
                    value.__module__ == module.__name__:
                for member, inner in vars(value).items():
                    found[(module.__name__, key, member)] = inner
    return found


@pytest.fixture
def loaded_repro():
    import checkout

    checkout.import_repro()
    import repro.serve.daemon  # noqa: F401 — a module that imports
    # wrapped names
    for module, _, _ in tracing.TARGETS:
        __import__(module)


def test_uninstall_restores_every_original(loaded_repro):
    from repro.programs import ALL_PROGRAMS
    from repro.verify import verify_source

    before = _attributes()
    recorder = tracing.Recorder()
    installation = tracing.install(recorder)
    assert installation.missing == []
    assert len(installation.patches) >= len(tracing.TARGETS)
    try:
        assert verify_source(ALL_PROGRAMS["swap"]).valid is False
    finally:
        tracing.uninstall(installation)
    names = {record[0] for record in recorder.spans}
    assert {"mso.compile", "automata.minimize", "symbolic.exec",
            "pascal.frontend", "verify.split",
            "verify.counterexample"} <= names
    after = _attributes()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []
    assert not [key for key, value in after.items()
                if hasattr(value, "__perfbench_original__")]


def test_missing_targets_are_listed_not_raised():
    installation = tracing.install(
        tracing.Recorder(), targets=(("repro.no_such_module", "f", "x"),
                                     ("json", "no_such_name", "y")))
    assert installation.missing == ["repro.no_such_module.f",
                                    "json.no_such_name"]
    assert installation.patches == []


def test_benchmark_json_lists_every_per_layer_metric():
    import os

    import run

    path = os.path.join(os.path.dirname(tracing.__file__), os.pardir,
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert {entry["name"]: entry["unit"]
            for entry in document["per_layer"]} == run.LAYER_UNITS
    assert {entry["name"]: entry["unit"]
            for entry in document["end_to_end"]} == run.END_TO_END_UNITS


def test_result_line_holds_every_metric_or_nothing():
    import run

    outcome = {"attempted": 8, "failed": 0, "problems": [],
               "run_problems": [],
               "metrics": {"setup_s": 0.4, "round_s": 18.5,
                           "peak_rss_mb": 315.0}}
    result = run._result(outcome, 0)
    assert result["metrics"]["peak_rss_mb"] == {"value": 315.0,
                                                "unit": "MB"}
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    del outcome["metrics"]["round_s"]
    with pytest.raises(KeyError):
        run._result(outcome, 0)
